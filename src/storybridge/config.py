"""Declarative run configuration shared by every CLI subcommand.

One flat dataclass; a JSON config file sets fields, and command-line
overrides (--set and the dedicated flags) replace them. Model
hyperparameter defaults are the published ones (hidden 512, 2 heads, 4
encoder layers, beam 3, learning rate 1e-3, penalties 20 and 5).
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass, field

from .ioutil import InputError, canonical_dumps, read_json, sha256_text


@dataclass
class RunConfig:
    # model hyperparameters
    hidden_size: int = 512
    heads: int = 2
    layers: int = 4
    decoder_layers: int = 4
    ff_multiple: int = 4
    beam_size: int = 3
    learning_rate: float = 1e-3
    alpha: float = 20.0
    gamma: float = 5.0
    seed: int = 0
    max_terms_per_image: int = 8
    max_sentence_tokens: int = 24
    # enrichment
    candidate_cap: int = 500
    # training
    epochs: int = 60
    warmup_steps: int = 100
    lm_kind: str = "gru"
    lm_hidden_size: int = 64
    ngram_order: int = 2
    smoothing_k: float = 1.0
    # stages and files
    stages: list[str] = field(default_factory=lambda: ["distill", "enrich", "generate"])
    corpus_path: str = ""
    text_corpus_path: str = ""
    features_path: str = ""
    terms_path: str = ""
    kg: list[dict] = field(default_factory=list)  # {"path", "source", "two_hop"}: two-hop eligibility per file
    distiller_model: str = ""
    lm_model: str = ""
    generator_model: str = ""
    out_dir: str = "runs/out"

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict, where: str = "config") -> "RunConfig":
        """A config from JSON data; an unknown key, an ill-typed value or one out of its range raises InputError.

        The error names ``where`` and the key. Values are checked, never
        converted: a JSON int in a float field stays an int, so a config and
        its manifest hash as written.
        """
        _check(data, _SCHEMA, "", where)
        for name, low in _AT_LEAST.items():
            if name in data and data[name] < low:
                raise InputError(f"{where}: {name} must be at least {low}, got {data[name]!r}")
        config = cls(**data)
        if config.lm_kind not in ("gru", "ngram"):
            raise InputError(f"{where}: lm_kind must be gru or ngram, got {config.lm_kind!r}")
        if config.hidden_size % 2:  # the generator's position tables pair each sine with a cosine
            raise InputError(f"{where}: hidden_size must be even, got {config.hidden_size}")
        if config.hidden_size % config.heads:
            got = f"hidden_size={config.hidden_size} and heads={config.heads}"
            raise InputError(f"{where}: hidden_size must be a multiple of heads, got {got}")
        return config

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        return cls.from_dict(read_json(path), where=path)

    def hash(self) -> str:
        return sha256_text(canonical_dumps(self.to_dict()))


# A field's declared type is the type of its RunConfig() default. A list
# holds one example item, whose type every item must have.
_SCHEMA = {**RunConfig().to_dict(), "stages": [""], "kg": [{"path": "", "source": "", "two_hop": True}]}
# Lower bounds of the numeric settings that a run would otherwise reject late
# or misuse silently.
_AT_LEAST = {"beam_size": 1, "alpha": 0, "gamma": 0, "candidate_cap": 1, "hidden_size": 1, "heads": 1,
             "lm_hidden_size": 1, "ngram_order": 1, "learning_rate": 0, "smoothing_k": 0, "epochs": 1,
             "warmup_steps": 0, "layers": 1, "decoder_layers": 1, "ff_multiple": 1, "max_terms_per_image": 1,
             "max_sentence_tokens": 1}
_KIND = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string", list: "a list", dict: "an object"}


def _check(value, schema, key: str, where: str) -> None:
    """Raise InputError unless value has the schema's type, recursing into lists and objects."""
    label = key or "config"
    if isinstance(schema, bool) or isinstance(value, bool):
        fits = isinstance(value, bool) and isinstance(schema, bool)
    elif isinstance(schema, float):  # an int fits too; NaN, an infinity or an int past float range do not
        fits = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    else:
        fits = isinstance(value, type(schema))
    if not fits:
        raise InputError(f"{where}: {label} must be {_KIND[type(schema)]}, got {value!r}")
    if isinstance(schema, list):
        for i, item in enumerate(value):
            _check(item, schema[0], f"{key}[{i}]", where)
    elif isinstance(schema, dict):
        unknown = sorted(set(value) - set(schema))
        if unknown:
            raise InputError(f"{where}: unknown {label} keys {unknown}")
        for name, item in value.items():
            _check(item, schema[name], f"{key}.{name}" if key else name, where)


def _parse(key: str, raw: str, schema):
    """One override value, parsed by the field's declared type."""
    if isinstance(schema, list):
        return [part for part in raw.split(",") if part]
    try:
        return type(schema)(raw)
    except ValueError:
        raise InputError(f"{key}: expected {_KIND[type(schema)]}, got {raw!r}") from None


def apply_overrides(config: RunConfig, overrides) -> RunConfig:
    """Apply "field=value" strings in order; a later value for a field wins.

    Each value is parsed by the field's declared type, and one that does not
    parse raises InputError naming the field.
    """
    data = config.to_dict()
    for item in overrides:
        key, sep, raw = item.partition("=")
        key = key.strip()
        if not sep:
            raise InputError(f"override {item!r} is not of the form key=value")
        if key not in _SCHEMA:
            raise InputError(f"unknown config key {key!r}")
        data[key] = _parse(key, raw, _SCHEMA[key])
    return RunConfig.from_dict(data, where="override")
