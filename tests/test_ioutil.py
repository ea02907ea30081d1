import os
import re

import pytest

from storybridge import ioutil
from storybridge.distill import load_feature_file
from storybridge.ioutil import InputError, read_json, read_jsonl_lines, write_json, write_jsonl
from storybridge.kg import load_tuples
from storybridge.lm import NGramLM
from storybridge.params import ParameterStore


class Boom(Exception):
    pass


def _records_then_raise():
    yield {"a": 1}
    yield {"b": 2}
    raise Boom("record source failed halfway")


def _write_jsonl(path, monkeypatch):
    write_jsonl(path, _records_then_raise())


def _write_json(path, monkeypatch):
    write_json(path, {"ok": 1, "bad": object()})


def _raise_on_float_list(dumps):
    """dumps, except that encoding a list of floats (a parameter's data) raises Boom."""

    def failing(obj):
        if isinstance(obj, list) and obj and isinstance(obj[0], float):
            raise Boom("serializer failed halfway")
        return dumps(obj)

    return failing


def _store_save(path, monkeypatch):
    import storybridge.params

    store = ParameterStore(0)
    store.param("w", (2, 3))
    # the head and the first name are written when the first parameter's data fails
    monkeypatch.setattr(storybridge.params, "canonical_dumps", _raise_on_float_list(storybridge.params.canonical_dumps))
    store.save(path)


def _ngram_save(path, monkeypatch):
    import storybridge.params

    def failing(obj):
        raise Boom("serializer failed")

    model = NGramLM.train([["<s>", "a", "</s>"]], order=2)
    # an n-gram LM is written by ParameterStore.save, like every checkpoint
    monkeypatch.setattr(storybridge.params, "canonical_dumps", failing)
    model.save(path)


@pytest.mark.parametrize("write", [_write_jsonl, _write_json, _store_save, _ngram_save])
def test_failed_write_keeps_previous_file_and_leaves_no_temp(tmp_path, monkeypatch, write):
    path = tmp_path / "target.json"
    path.write_bytes(b'{"previous": true}\n')
    with pytest.raises((Boom, TypeError)):
        write(str(path), monkeypatch)
    assert path.read_bytes() == b'{"previous": true}\n'
    assert os.listdir(tmp_path) == ["target.json"]


def test_failed_first_write_leaves_nothing(tmp_path):
    with pytest.raises(Boom):
        write_jsonl(str(tmp_path / "sub" / "new.jsonl"), _records_then_raise())
    assert os.listdir(tmp_path / "sub") == []


def test_atomic_writer_replaces_whole_file(tmp_path):
    path = str(tmp_path / "out.txt")
    with ioutil.atomic_writer(path) as fh:
        fh.write("first version, long\n")
    with ioutil.atomic_writer(path) as fh:
        fh.write("second\n")
        assert open(path).read() == "first version, long\n"  # untouched until the block completes
    assert open(path).read() == "second\n"
    assert os.listdir(tmp_path) == ["out.txt"]


@pytest.mark.parametrize("read", [read_jsonl_lines, read_json, load_feature_file, lambda path: load_tuples(path, "kg"),
                                  ParameterStore.load],
                         ids=["jsonl", "json", "features", "kg", "checkpoint"])
def test_a_directory_is_not_an_input_file(tmp_path, read):
    with pytest.raises(InputError, match=f"not found: {re.escape(str(tmp_path))}$"):
        read(str(tmp_path))
