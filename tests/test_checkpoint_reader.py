"""The checkpoint readers and the streamed save: the float64 companion and the streaming JSON reader
give the values and bytes json gives, with less memory."""

import json
import os
import shutil
import subprocess
import sys
import textwrap
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import storybridge.params as params
from helpers import checkpoint_payload
from storybridge.cli import EXIT_INPUT, EXIT_OK, main
from storybridge.distill import DistillerModel
from storybridge.enrich import TermPath
from storybridge.generate import GeneratorConfig, GeneratorModel
from storybridge.ioutil import InputError, canonical_dumps, write_jsonl
from storybridge.lm import load_lm
from storybridge.params import COMPANION_SUFFIX, ParameterStore, read_checkpoint

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.1125369292536007e-308,
               1.7976931348623157e308, -1.7976931348623157e308, 1e-05, 1e16, 0.1, -1.5]
finite_floats = st.integers(min_value=0, max_value=2**64 - 1).map(
    lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64))
).filter(np.isfinite) | st.sampled_from(EDGE_FLOATS)


def store_holding(arrays: dict) -> ParameterStore:
    store = ParameterStore(5)
    for name, values in arrays.items():
        store.param(name, np.shape(values), init="zeros").data[...] = values
    store.schedule = {"base_lr": 0.001, "step_count": 3}
    return store


def assert_bits_equal(got, want):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # == would take -0.0 for 0.0


@given(
    values=st.lists(finite_floats, min_size=0, max_size=60),
    split=st.integers(min_value=0, max_value=60),
    chunk=st.sampled_from([1, 7, 64, params._CHUNK_BYTES]),
)
@settings(max_examples=150, deadline=None)
def test_float64_bit_patterns_round_trip(tmp_path_factory, values, split, chunk):
    values = np.array(values, dtype=np.float64)
    store = store_holding({"a.w": values[:split], "b": values[split:].reshape(1, -1)})
    extra = {"kind": "test", "vocab": ["data", "params"]}
    path = str(tmp_path_factory.mktemp("ckpt") / "model.json")
    store.save(path, extra=extra)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert text == canonical_dumps(checkpoint_payload(store, extra))  # the bytes the one-shot encoder writes
    with mock.patch.object(params, "_CHUNK_BYTES", chunk):
        loaded, loaded_extra = ParameterStore.load(path)
    assert loaded_extra == extra and loaded.schedule == store.schedule
    for name, t in store.items():
        assert_bits_equal(loaded[name].data, t.data)
    again = path + ".again"
    loaded.save(again, extra=loaded_extra)
    with open(again, encoding="utf-8") as fh:
        assert fh.read() == text


def json_layouts(payload: dict) -> dict:
    shape_first = {
        **payload,
        "params": {name: {"shape": e["shape"], "data": e["data"]} for name, e in payload["params"].items()},
    }
    return {
        "default-separators": json.dumps(payload),
        "indent-2": json.dumps(payload, indent=2),
        "shape-before-data": json.dumps(shape_first),
        "escaped-key": json.dumps(payload).replace('"data"', '"d\\u0061ta"'),
    }


@pytest.mark.parametrize("layout", ["default-separators", "indent-2", "shape-before-data", "escaped-key"])
@pytest.mark.parametrize("chunk", [5, params._CHUNK_BYTES])
def test_reader_equals_json_load(tmp_path, layout, chunk):
    rng = np.random.default_rng(3)
    store = store_holding({"enc.w": rng.normal(size=(4, 5)) * 10.0 ** rng.integers(-30, 30, size=(4, 5)),
                           "enc.b": np.zeros(5), "empty": np.zeros(0), "one": np.array([-0.0])})
    payload = checkpoint_payload(store, {"kind": "test", "config": {"hidden_size": 4}})
    path = tmp_path / "model.json"
    path.write_text(json_layouts(payload)[layout], encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        want = json.load(fh)
    with mock.patch.object(params, "_CHUNK_BYTES", chunk):
        got = read_checkpoint(str(path))
    assert {k: v for k, v in got.items() if k != "params"} == {k: v for k, v in want.items() if k != "params"}
    assert list(got["params"]) == list(want["params"])
    for name, entry in want["params"].items():
        assert got["params"][name]["shape"] == entry["shape"]
        assert_bits_equal(got["params"][name]["data"], entry["data"])


@given(
    body=st.text(alphabet='0123456789.,-+eE \t\n\r\x0b\x0c"[{}:aNnIfy', max_size=14),
    chunk=st.sampled_from([1, 3, params._CHUNK_BYTES]),
)
@settings(max_examples=400, deadline=None)
def test_data_arrays_read_as_json_load_read_them(tmp_path_factory, body, chunk):
    # the parent's loader: json.load of the whole file, then np.asarray of each data list
    text = '{"params":{"w":{"data":[' + body + '],"shape":[0]}}}'
    try:
        want = np.asarray(json.loads(text)["params"]["w"]["data"], dtype=np.float64)
    except (TypeError, ValueError):
        want = None
    path = tmp_path_factory.mktemp("ckpt") / "model.json"
    path.write_text(text, encoding="utf-8")
    with mock.patch.object(params, "_CHUNK_BYTES", chunk):
        try:
            got = read_checkpoint(str(path))["params"]["w"]["data"]
        except InputError:
            got = None
    assert (got is None) == (want is None), body
    if want is not None:
        assert_bits_equal(got, want)


def test_string_heavy_checkpoint_with_data_across_a_chunk_boundary(tmp_path):
    # n-gram-shaped: mostly word strings, the word "data" among them, one escaped string, then a
    # parameter array; the padding word moves the "data" key across every offset of a 64-byte chunk
    for pad in range(64):
        words = [f"w{i}" for i in range(30)] + ["data", 'say "hi"', "p" * pad]
        payload = {
            "extra": {"kind": "test", "vocab": words, "counts": [[["data", w], {w: 2, "data": 1}] for w in words]},
            "format_version": 1,
            "params": {"w": {"data": [0.5, -1.25, 3e-7], "shape": [3]}},
            "rng_seed": 0,
            "schedule": None,
        }
        path = tmp_path / f"pad{pad}.json"
        path.write_text(canonical_dumps(payload), encoding="utf-8")
        with mock.patch.object(params, "_CHUNK_BYTES", 64):
            got = read_checkpoint(str(path))
        assert {k: v for k, v in got.items() if k != "params"} == {k: v for k, v in payload.items() if k != "params"}
        assert got["params"]["w"]["shape"] == [3]
        assert_bits_equal(got["params"]["w"]["data"], payload["params"]["w"]["data"])


def tiny_generator_checkpoint(tmp_path) -> str:
    vocab = ["<bos>", "<eos>", "<sb>", "<unk>", "<s>", "</s>", "<sep>", "w"]
    model = GeneratorModel.build(vocab, GeneratorConfig(hidden_size=4, heads=2, encoder_layers=1, decoder_layers=1, ff_multiple=1))
    path = str(tmp_path / "generator.json")
    model.save(path)
    return path


def with_b_out(text: str, body: str) -> str:
    start = text.index('"dec.b_out":{"data":[') + len('"dec.b_out":{"data":[')
    return text[:start] + body + text[text.index("]", start) :]


BAD_CHECKPOINTS = {
    "plus-sign": lambda t: with_b_out(t, "+1,0,0,0,0,0,0,0"),
    "bare-fraction": lambda t: with_b_out(t, ".5,0,0,0,0,0,0,0"),
    "negative-bare-fraction": lambda t: with_b_out(t, "-.5,0,0,0,0,0,0,0"),
    "leading-zero": lambda t: with_b_out(t, "01,0,0,0,0,0,0,0"),
    "negative-leading-zero": lambda t: with_b_out(t, "0,-01,0,0,0,0,0,0"),
    "bare-point": lambda t: with_b_out(t, "1.,0,0,0,0,0,0,0"),
    "point-before-exponent": lambda t: with_b_out(t, "1.e5,0,0,0,0,0,0,0"),
    "empty-element": lambda t: with_b_out(t, "1,,2,0,0,0,0,0"),
    "blank-element": lambda t: with_b_out(t, "1, ,2,0,0,0,0,0"),
    "trailing-comma": lambda t: with_b_out(t, "0,0,0,0,0,0,0,0,"),
    "leading-comma": lambda t: with_b_out(t, ",0,0,0,0,0,0,0,0"),
    "string-element": lambda t: with_b_out(t, '0,0,0,"a",0,0,0,0'),
    "nested-list": lambda t: with_b_out(t, "[0,0],0,0,0,0,0,0"),
    "NaN": lambda t: with_b_out(t, "NaN,0,0,0,0,0,0,0"),
    "Infinity": lambda t: with_b_out(t, "0,-Infinity,0,0,0,0,0,0"),
    "nan-lowercase": lambda t: with_b_out(t, "nan,0,0,0,0,0,0,0"),
    "space-inside-number": lambda t: with_b_out(t, "1 2,0,0,0,0,0,0,0"),
    "form-feed": lambda t: with_b_out(t, "1\f,0,0,0,0,0,0,0"),
    "truncated-in-array": lambda t: t[: t.index('"dec.b_out":{"data":[') + 24],
    "truncated-after-array": lambda t: t[: t.index("]", t.index('"dec.b_out":{"data":[')) + 1],
    "data-in-extra": lambda t: t.replace('"extra":{', '"extra":{"data":[1.0],', 1),
    "data-nested-in-entry": lambda t: t.replace('"dec.b_out":{', '"dec.b_out":{"inner":{"data":[1.0]},', 1),
    "duplicate-data": lambda t: t.replace('"dec.b_out":{', '"dec.b_out":{"data":[1.0],', 1),
    "not-utf8": lambda t: t.replace('"extra":{', '"extra":{"\udcff":1,', 1),
    # an edited JSON no longer has the digest its companion names, so it is parsed and its own error raised
    "kind-tampered": lambda t: t.replace('"kind":"generator"', '"kind":"distiller"', 1),
}


def with_first_value(companion: bytes, value: float) -> bytes:
    """A companion's bytes with the first float64 after its header line replaced by value."""
    start = companion.index(b"\n") + 1
    return companion[:start] + np.array([value], dtype="<f8").tobytes() + companion[start + 8 :]


BAD_COMPANIONS = {  # the JSON is left as saved, so the digest still binds the companion
    "companion-NaN": lambda b: with_first_value(b, float("nan")),
    "companion-Infinity": lambda b: with_first_value(b, float("-inf")),
}


@pytest.mark.parametrize("case", list(BAD_CHECKPOINTS) + list(BAD_COMPANIONS))
def test_malformed_checkpoint_exits_two_naming_the_file(tmp_path, capsys, case):
    path = tiny_generator_checkpoint(tmp_path)
    if case in BAD_COMPANIONS:
        where = path + COMPANION_SUFFIX
        with open(where, "rb") as fh:
            data = BAD_COMPANIONS[case](fh.read())
    else:
        where = path
        with open(path, encoding="utf-8") as fh:
            data = BAD_CHECKPOINTS[case](fh.read()).encode("utf-8", "surrogateescape")
    with open(where, "wb") as fh:
        fh.write(data)
    with pytest.raises(InputError) as exc:
        GeneratorModel.load(path)
    assert str(exc.value).startswith(where + ":")
    paths = str(tmp_path / "paths.jsonl")
    write_jsonl(paths, [TermPath.from_groups([["w"]], story_id="s").to_record()])
    code = main([
        "pipeline", "--set", "stages=generate", "--set", f"terms_path={paths}", "--set", f"generator_model={path}",
        "--out-dir", str(tmp_path / "out"),
    ])
    err = capsys.readouterr().err
    assert code == EXIT_INPUT
    assert where in err and "Traceback" not in err


def test_non_finite_data_names_non_finite_values(tmp_path):
    path = tiny_generator_checkpoint(tmp_path)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    for body in ("NaN,0,0,0,0,0,0,0", "1e400,0,0,0,0,0,0,0"):  # 1e400 parses, to inf, as in json
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(with_b_out(text, body))
        with pytest.raises(InputError, match="non-finite"):
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
    if sys.argv[2] == "traced":  # the bytes allocated during a second load that are freed before it returns
        del store
        tracemalloc.start()
        store, _ = ParameterStore.load(sys.argv[1])
        current, peak = tracemalloc.get_traced_memory()
        print(peak - current)
    """
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("route", ["json", "companion"])
def test_loading_costs_little_more_memory_than_the_weights(tmp_path, route):
    # json.load held the whole text twice (bytes and str) plus a Python float per
    # weight: about eight times the float64 bytes. Streaming holds the arrays and a
    # chunk. The companion holds the arrays, each read once into its own
    # allocation and checked with its own finite mask, so what it frees before
    # returning is at most one parameter's mask and a hashing chunk; one buffer for
    # all values, or one mask over them, would be far more. The peak is the child's
    # VmHWM, not ru_maxrss: a spawned child's ru_maxrss starts at the RSS of the
    # process that spawned it. numpy reports its arrays to tracemalloc.
    rng = np.random.default_rng(0)
    store = ParameterStore(0)
    for i in range(40):
        store.param(f"p{i:02d}", (50_000,), init="zeros").data[:] = rng.uniform(-0.05, 0.05, 50_000)
    path = str(tmp_path / "big.json")
    store.save(path)
    if route == "json":
        os.remove(path + COMPANION_SUFFIX)
    weight_bytes = 40 * 50_000 * 8
    src = os.path.dirname(os.path.dirname(os.path.abspath(params.__file__)))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    mode = "traced" if route == "companion" else "rss"
    out = subprocess.run([sys.executable, "-c", MEMORY_PROBE, path, mode], env=env, capture_output=True, text=True, check=True)
    growth, *transient = (int(line) for line in out.stdout.split())
    bound = 1.3 if route == "companion" else 2.5
    assert growth < bound * weight_bytes, f"peak RSS grew {growth / 2**20:.1f} MB for {weight_bytes / 2**20:.0f} MB of weights"
    if transient:
        assert transient[0] < weight_bytes / 20, f"the load freed {transient[0] / 2**20:.2f} MB before returning"


# ------------------------------------------------------------ the float64 companion


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


def json_parse_forbidden():
    return mock.patch.object(params, "read_checkpoint", side_effect=AssertionError("the JSON was parsed"))


@pytest.mark.parametrize("kind", ["distiller", "generator", "gru_lm", "ngram"])
def test_companion_route_loads_what_the_json_route_loads(four_kinds, tmp_path, kind):
    saved, load_model = four_kinds[kind]
    path = moved_pair(saved, tmp_path / "elsewhere")  # the header holds no path, so a moved pair keeps its route
    with json_parse_forbidden():
        fast, fast_extra = ParameterStore.load(path)
        load_model(path)  # the model builds on the companion's store
    os.remove(path + COMPANION_SUFFIX)
    slow, slow_extra = ParameterStore.load(path)
    assert fast_extra == slow_extra and fast_extra["kind"] == kind
    assert (fast.rng_seed, fast.schedule) == (slow.rng_seed, slow.schedule)
    assert [(name, t.shape) for name, t in fast.items()] == [(name, t.shape) for name, t in slow.items()]
    for name, t in slow.items():
        assert_bits_equal(fast[name].data, t.data)
    assert len(slow) > 0 or kind == "ngram"


def test_finetuning_from_either_route_writes_the_same_checkpoint(trained_world, tmp_path, capsys):
    pre = moved_pair(trained_world["generator_model"], tmp_path / "pre")
    args = ["train-generator", "--set", f"corpus_path={trained_world['corpus']}", "--set", "epochs=1", "--finetune-from", pre]
    fast, slow = str(tmp_path / "fast.json"), str(tmp_path / "slow.json")
    with json_parse_forbidden():
        assert main([*args, "--out", fast]) == EXIT_OK
    os.remove(pre + COMPANION_SUFFIX)
    assert main([*args, "--out", slow]) == EXIT_OK
    capsys.readouterr()
    for suffix in ("", COMPANION_SUFFIX):
        with open(fast + suffix, "rb") as a, open(slow + suffix, "rb") as b:
            assert a.read() == b.read()
