"""Named parameter container with seeded init and exact JSON checkpoints."""

from __future__ import annotations

import json
import math

import numpy as np

from .autodiff import Tensor
from .ioutil import InputError, atomic_writer, read_json

FORMAT_VERSION = 1


class ParameterStore:
    """Ordered map of name -> parameter Tensor, plus the seed that built it.

    Creation order is deterministic for a fixed seed, so two stores built by
    the same code with the same seed hold bit-identical values. Parameters
    train from creation until ``freeze``, which makes them constants that
    record no tape and refuses further allocation. Loaded stores come back
    frozen. ``schedule`` is the optimizer schedule of the last training run
    (None before any); checkpoints save and restore it.
    """

    def __init__(self, rng_seed: int):
        self.rng_seed = int(rng_seed)
        self._rng = np.random.Generator(np.random.PCG64(self.rng_seed))
        self._params: dict[str, Tensor] = {}
        self._claimed: set[str] = set()  # names some caller has asked for
        self.frozen = False
        self.schedule: dict | None = None

    def __len__(self) -> int:
        return len(self._params)

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def param(self, name: str, shape: tuple[int, ...], init: str = "xavier") -> Tensor:
        """Return the named parameter, allocating it on first use.

        init is one of "xavier" (uniform with Glorot limit), "zeros", "ones".
        """
        if name in self._params:
            t = self._params[name]
            if t.shape != tuple(shape):
                raise ValueError(f"parameter '{name}' exists with shape {t.shape}, wanted {tuple(shape)}")
            self._claimed.add(name)
            return t
        if self.frozen:
            raise ValueError(f"store is frozen; cannot allocate parameter '{name}'")
        shape = tuple(int(s) for s in shape)
        if init == "xavier":
            limit = math.sqrt(6.0 / (shape[0] + shape[-1]))
            data = self._rng.uniform(-limit, limit, size=shape)
        elif init == "zeros":
            data = np.zeros(shape)
        elif init == "ones":
            data = np.ones(shape)
        else:
            raise ValueError(f"unknown init '{init}'")
        t = Tensor(data, requires_grad=True)
        self._params[name] = t
        self._claimed.add(name)
        return t

    def freeze(self, frozen: bool = True) -> "ParameterStore":
        """Make every parameter a constant (``requires_grad`` False), or trainable again with frozen=False."""
        self.frozen = frozen
        for t in self._params.values():
            t.requires_grad = not frozen
        return self

    def build_model(self, where: str, build):
        """Build a model on this loaded store; it must hold exactly the model's parameters.

        A missing name, a wrong shape, a name the model never asks for, or a
        build that rejects the checkpoint's metadata raises InputError.
        """
        try:
            model = build()
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{where}: checkpoint does not fit the model ({exc})") from None
        unused = [name for name in self._params if name not in self._claimed]
        if unused:
            raise InputError(f"{where}: checkpoint holds parameters the model does not use: {unused}")
        return model

    def zero_grads(self) -> None:
        for t in self._params.values():
            t.grad = None

    def collect_grads(self) -> dict[str, np.ndarray]:
        """Gradients by name; parameters untouched by the last backward get zeros."""
        return {
            name: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for name, t in self._params.items()
        }

    def to_payload(self, extra: dict | None = None) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "rng_seed": self.rng_seed,
            "schedule": self.schedule,
            "extra": extra or {},
            "params": {
                name: {"shape": list(t.shape), "data": t.data.reshape(-1).tolist()}
                for name, t in self._params.items()
            },
        }

    def save(self, path: str, extra: dict | None = None) -> None:
        payload = self.to_payload(extra=extra)
        with atomic_writer(path) as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_payload(
        cls, payload: dict, where: str = "checkpoint", kind: str | None = None
    ) -> tuple["ParameterStore", dict]:
        """A frozen store and the checkpoint's ``extra`` from a payload; every value must be finite.

        A payload that is not a checkpoint of this format, or whose
        ``extra.kind`` is not ``kind`` (when given), raises InputError naming
        ``where``.
        """
        if not isinstance(payload, dict):
            raise InputError(f"{where}: not a checkpoint (top level is not a JSON object)")
        version = payload.get("format_version")
        if version != FORMAT_VERSION:
            raise InputError(f"{where}: unsupported checkpoint format_version {version!r}")
        params, extra, schedule = payload.get("params"), payload.get("extra", {}), payload.get("schedule")
        if not isinstance(params, dict) or not isinstance(extra, dict):
            raise InputError(f"{where}: checkpoint needs a 'params' object and an 'extra' object")
        if schedule is not None and not isinstance(schedule, dict):
            raise InputError(f"{where}: checkpoint 'schedule' must be an object or null")
        if kind is not None and extra.get("kind") != kind:
            raise InputError(f"{where}: not a {kind} checkpoint")
        try:
            store = cls(payload["rng_seed"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{where}: checkpoint has no usable rng_seed ({exc})") from None
        store.schedule = schedule
        for name, entry in params.items():
            try:
                data = np.asarray(entry["data"], dtype=np.float64).reshape(tuple(entry["shape"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(f"{where}: malformed parameter '{name}' ({exc})") from None
            if not np.isfinite(data).all():
                raise InputError(f"{where}: parameter '{name}' holds non-finite values")
            store._params[name] = Tensor(data)
        return store.freeze(), extra

    @classmethod
    def load(cls, path: str, kind: str | None = None) -> tuple["ParameterStore", dict]:
        return cls.from_payload(read_json(path), where=path, kind=kind)
