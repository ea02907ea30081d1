"""Named parameter container with seeded init; checkpoints load from a float64 companion of their JSON export."""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from .autodiff import Tensor
from .ioutil import InputError, atomic_writer, canonical_dumps, sha256_file

FORMAT_VERSION = 1
COMPANION_SUFFIX = ".f64"  # a checkpoint's float64 companion is its path plus this
COMPANION_FORMAT = {"format": "storybridge-checkpoint-f64", "version": 1}  # the companion's header keys


class ParameterStore:
    """Ordered map of name -> parameter Tensor, plus the seed that built it.

    Creation order is deterministic for a fixed seed, so two stores built by
    the same code with the same seed hold bit-identical values. Parameters
    train from creation until ``freeze``, which makes them constants that
    record no tape and refuses further allocation. Loaded stores, and the
    stores of built models, come back frozen. ``schedule`` is the optimizer
    schedule of the last training run (None before any); checkpoints save
    and restore it. ``pack`` moves the parameters into one flat buffer for
    training; ``flat`` and ``flat_grad`` are None until then.
    """

    def __init__(self, rng_seed: int):
        self.rng_seed = int(rng_seed)
        self._rng = np.random.Generator(np.random.PCG64(self.rng_seed))
        self._params: dict[str, Tensor] = {}
        self._claimed: set[str] = set()  # names some caller has asked for
        self.frozen = False
        self.schedule: dict | None = None
        self.flat: np.ndarray | None = None
        self.flat_grad: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._params)

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

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
        if self.frozen or self.flat is not None:
            state = "frozen" if self.frozen else "packed"
            raise ValueError(f"store is {state}; cannot allocate parameter '{name}'")
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

    def pack(self) -> "ParameterStore":
        """Move the parameters, in creation order, into one float64 buffer ``flat``; a no-op once packed.

        Each Tensor stays the same object, and its ``data`` becomes a
        C-contiguous view of ``flat`` holding the same values, so an in-place
        update of ``flat`` updates every parameter. Each also gets a
        ``grad_view`` of the zeroed buffer ``flat_grad`` of the same layout,
        which ``autodiff.backward`` accumulates into.
        """
        if self.flat is None:
            sizes = [t.size for t in self._params.values()]
            self.flat, self.flat_grad = np.empty(sum(sizes)), np.zeros(sum(sizes))
            offset = 0
            for t, size in zip(self._params.values(), sizes):
                view = self.flat[offset : offset + size].reshape(t.shape)
                view[...] = t.data
                t.data = view
                t.grad_view = self.flat_grad[offset : offset + size].reshape(t.shape)
                offset += size
        return self

    def zero_grads(self) -> None:
        """Forget the last backward's gradients; a packed store's ``flat_grad`` reads zero again."""
        for t in self._params.values():
            t.grad = None
        if self.flat_grad is not None:
            self.flat_grad.fill(0.0)

    def save(self, path: str, extra: dict | None = None) -> None:
        """Write the checkpoint's JSON export, one parameter's data at a time, then its float64 companion.

        The JSON's bytes are ``canonical_dumps`` of the whole payload: top-level
        keys and parameter names in sorted order, each entry ``{"data": [...],
        "shape": [...]}``. ``load`` never parses it: it is the file the
        manifest hashes and ``json.load`` readers read. The companion,
        ``path + COMPANION_SUFFIX``, is what ``load`` reads, written after the
        JSON: one canonical JSON header line (``COMPANION_FORMAT``, the sha256
        of the JSON's bytes, the payload's other top-level keys, and ``[name,
        shape]`` per parameter in the JSON's order), then each parameter's raw
        little-endian float64 values in that order.
        """
        meta = {"extra": extra or {}, "format_version": FORMAT_VERSION, "rng_seed": self.rng_seed, "schedule": self.schedule}
        names = sorted(self._params)
        digest = hashlib.sha256()
        with atomic_writer(path, binary=True) as fh:

            def write(text: str) -> None:
                data = text.encode("utf-8")
                digest.update(data)
                fh.write(data)

            write(canonical_dumps({k: meta[k] for k in ("extra", "format_version")})[:-1] + ',"params":{')
            for i, name in enumerate(names):
                t = self._params[name]
                write(f'{"," if i else ""}{canonical_dumps(name)}:{{"data":')
                write(canonical_dumps(t.data.reshape(-1).tolist()))
                write(f',"shape":{canonical_dumps(list(t.shape))}}}')
            write("}," + canonical_dumps({k: meta[k] for k in ("rng_seed", "schedule")})[1:])
        shapes = [[name, list(self._params[name].shape)] for name in names]
        header = {**COMPANION_FORMAT, **meta, "json_sha256": digest.hexdigest(), "params": shapes}
        with atomic_writer(path + COMPANION_SUFFIX, binary=True) as fh:
            fh.write((canonical_dumps(header) + "\n").encode("utf-8"))
            for name in names:
                fh.write(np.ascontiguousarray(self._params[name].data, dtype="<f8").reshape(-1).data)

    @classmethod
    def load(cls, path: str, kind: str | None = None) -> tuple["ParameterStore", dict]:
        """A frozen store and the checkpoint's ``extra``, read from the float64 companion; every value must be finite.

        The companion, ``path + COMPANION_SUFFIX``, is the one file values load
        from: its header line must be a JSON object of ``COMPANION_FORMAT``
        with names in strictly sorted order and shapes of non-negative
        integers, the rest of the file exactly the float64 values those shapes
        need, read with one ``np.fromfile`` per parameter, and its
        ``json_sha256`` the digest of path's bytes. The JSON is hashed, never
        parsed. A missing or malformed companion, a pair whose digest does not
        match, or a non-finite value raises InputError naming the companion;
        a checkpoint of another format version, or whose ``extra.kind`` is not
        ``kind`` (when given), raises InputError naming ``path``.
        """
        if not os.path.isfile(path):
            raise InputError(f"input file not found: {path}")
        companion = path + COMPANION_SUFFIX
        if not os.path.isfile(companion):
            raise InputError(f"{path}: checkpoint has no float64 companion {companion} (a JSON-only checkpoint does not load)")
        with open(companion, "rb") as fh:
            try:
                header = json.loads(fh.readline())
            except ValueError:  # not JSON, or not UTF-8
                raise InputError(f"{companion}: header line is not JSON") from None
            if not (isinstance(header, dict) and all(header.get(k) == v for k, v in COMPANION_FORMAT.items())):
                raise InputError(f"{companion}: not a {COMPANION_FORMAT['format']} version {COMPANION_FORMAT['version']} file")
            entries = header.get("params")
            if not (isinstance(entries, list) and all(_is_shape_entry(e) for e in entries)
                    and all(a[0] < b[0] for a, b in zip(entries, entries[1:]))):
                raise InputError(f"{companion}: 'params' must be [name, shape] pairs in sorted name order, "
                                 "shapes of non-negative integers")
            counts = [math.prod(shape) for _, shape in entries]
            size = os.fstat(fh.fileno()).st_size - fh.tell()
            if size != 8 * sum(counts):
                raise InputError(f"{companion}: holds {size} bytes of values where its shapes need {8 * sum(counts)}")
            version, extra, schedule = header.get("format_version"), header.get("extra", {}), header.get("schedule")
            if version != FORMAT_VERSION:
                raise InputError(f"{path}: unsupported checkpoint format_version {version!r}")
            if not isinstance(extra, dict):
                raise InputError(f"{path}: checkpoint needs an 'extra' object")
            if schedule is not None and not isinstance(schedule, dict):
                raise InputError(f"{path}: checkpoint 'schedule' must be an object or null")
            if kind is not None and extra.get("kind") != kind:
                raise InputError(f"{path}: not a {kind} checkpoint")
            seed = header.get("rng_seed")
            if not (type(seed) is int and seed >= 0):
                raise InputError(f"{path}: checkpoint has no usable rng_seed (got {seed!r})")
            store = cls(seed)
            if header.get("json_sha256") != sha256_file(path):
                raise InputError(f"{companion}: written for other bytes than {path} holds now (json_sha256 does not match)")
            store.schedule = schedule
            for (name, shape), n in zip(entries, counts):
                data = np.fromfile(fh, dtype="<f8", count=n).reshape(shape)
                if not np.isfinite(data).all():
                    raise InputError(f"{companion}: parameter '{name}' holds non-finite values")
                store._params[name] = Tensor(data)
        return store.freeze(), extra


def _is_shape_entry(entry) -> bool:
    """Whether a companion header entry is ``[name, shape]``: a string and a list of non-negative integers."""
    return (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str) and isinstance(entry[1], list)
            and all(type(n) is int and n >= 0 for n in entry[1]))
