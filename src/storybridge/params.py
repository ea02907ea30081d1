"""Named parameter container with seeded init, exact JSON checkpoints and their float64 companions."""

from __future__ import annotations

import hashlib
import json
import math
import os
import re

import numpy as np

from .autodiff import Tensor
from .ioutil import InputError, atomic_writer, canonical_dumps, sha256_file

FORMAT_VERSION = 1
COMPANION_SUFFIX = ".f64"  # a checkpoint's float64 companion is its path plus this
COMPANION_FORMAT = {"format": "storybridge-checkpoint-f64", "version": 1}  # the companion's header keys

_CHUNK_BYTES = 1 << 18  # a checkpoint is read this many bytes at a time
_STRING = re.compile(rb'"[^"\\]*(?:\\.[^"\\]*)*"', re.DOTALL)
# Skeleton bytes the scan passes in one match: everything up to a string that is
# "data", holds an escape, or is cut off by the end of the buffer.
_PLAIN = re.compile(rb'(?:[^"]+|"(?!data")[^"\\]*")*')
_SPACE = re.compile(rb"[ \t\n\r]*")


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
        """Write the checkpoint as canonical JSON, encoding one parameter's data at a time, then its companion.

        The JSON's bytes are ``canonical_dumps`` of the whole payload: top-level
        keys and parameter names in sorted order, each entry ``{"data": [...],
        "shape": [...]}``. The float64 companion, ``path + COMPANION_SUFFIX``,
        is written after it: one canonical JSON header line (``COMPANION_FORMAT``,
        the sha256 of the JSON's bytes, the payload's other top-level keys, and
        ``[name, shape]`` per parameter in the JSON's order), then each
        parameter's raw little-endian float64 values in that order.
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
        """A frozen store and the checkpoint's ``extra`` from a file; every value must be finite.

        The values come from the float64 companion when ``read_companion``
        accepts it, and from parsing the JSON otherwise; both give the same
        store, and every check below applies to both. A file that is not a
        checkpoint of this format, or whose ``extra.kind`` is not ``kind``
        (when given), raises InputError naming ``path``; a non-finite value
        names the file it was read from.
        """
        payload, source = read_companion(path) or (read_checkpoint(path), path)
        if not isinstance(payload, dict):
            raise InputError(f"{path}: not a checkpoint (top level is not a JSON object)")
        version = payload.get("format_version")
        if version != FORMAT_VERSION:
            raise InputError(f"{path}: unsupported checkpoint format_version {version!r}")
        params, extra, schedule = payload.get("params"), payload.get("extra", {}), payload.get("schedule")
        if not isinstance(params, dict) or not isinstance(extra, dict):
            raise InputError(f"{path}: checkpoint needs a 'params' object and an 'extra' object")
        if schedule is not None and not isinstance(schedule, dict):
            raise InputError(f"{path}: checkpoint 'schedule' must be an object or null")
        if kind is not None and extra.get("kind") != kind:
            raise InputError(f"{path}: not a {kind} checkpoint")
        try:
            store = cls(payload["rng_seed"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{path}: checkpoint has no usable rng_seed ({exc})") from None
        store.schedule = schedule
        for name, entry in params.items():
            try:
                data = np.asarray(entry["data"], dtype=np.float64).reshape(tuple(entry["shape"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(f"{path}: malformed parameter '{name}' ({exc})") from None
            if not np.isfinite(data).all():
                raise InputError(f"{source}: parameter '{name}' holds non-finite values")
            store._params[name] = Tensor(data)
        return store.freeze(), extra


def read_companion(path: str) -> tuple[dict, str] | None:
    """The payload of the JSON checkpoint at path, read from its float64 companion, and the companion's path.

    The payload has ``read_checkpoint``'s shape, each parameter's ``data`` one
    ``np.fromfile`` of its own values. It is None, and the JSON must be
    parsed, unless the companion exists, its header line is a JSON object of
    ``COMPANION_FORMAT`` with names in strictly sorted order and shapes of
    non-negative integers, the rest of the file is exactly the float64 values
    those shapes need, and its ``json_sha256`` is the digest of path's bytes.
    """
    companion = path + COMPANION_SUFFIX
    if not (os.path.isfile(path) and os.path.isfile(companion)):
        return None
    with open(companion, "rb") as fh:
        try:
            header = json.loads(fh.readline())
        except ValueError:  # not JSON, or not UTF-8
            return None
        entries = header.get("params") if isinstance(header, dict) else None
        if not (isinstance(entries, list) and all(_is_shape_entry(e) for e in entries)
                and all(a[0] < b[0] for a, b in zip(entries, entries[1:]))
                and all(header.get(k) == v for k, v in COMPANION_FORMAT.items())):
            return None
        counts = [math.prod(shape) for _, shape in entries]
        if os.fstat(fh.fileno()).st_size - fh.tell() != 8 * sum(counts) or header.get("json_sha256") != sha256_file(path):
            return None
        params = {name: {"data": np.fromfile(fh, dtype="<f8", count=n), "shape": shape} for (name, shape), n in zip(entries, counts)}
    skip = {*COMPANION_FORMAT, "json_sha256"}
    return {**{k: v for k, v in header.items() if k not in skip}, "params": params}, companion


def _is_shape_entry(entry) -> bool:
    """Whether a companion header entry is ``[name, shape]``: a string and a list of non-negative integers."""
    return (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str) and isinstance(entry[1], list)
            and all(type(n) is int and n >= 0 for n in entry[1]))


def read_checkpoint(path: str) -> dict:
    """A checkpoint's JSON payload, read in fixed chunks; each parameter's ``data`` is a float64 array.

    Every array that is the value of a ``"data"`` key is parsed to float64
    as it streams past, one piece of at most a chunk at a time, and the rest
    of the file (the skeleton, a few KB for a model) is parsed on its own. So
    the reader never holds the whole text, nor a Python float per weight:
    only those of one piece. An array is bound only where it is
    ``params.<name>.data``; a ``"data"`` array anywhere else, invalid JSON or
    a file that is not UTF-8 raises InputError naming ``path``.
    """
    if not os.path.exists(path):
        raise InputError(f"input file not found: {path}")
    with open(path, "rb") as fh:
        skeleton, arrays = _scan(fh, path)
    try:
        payload = json.loads(skeleton.decode("utf-8"))
    except UnicodeDecodeError:
        raise InputError(f"{path}: invalid JSON (not UTF-8 text)") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc.msg})") from None
    params = payload.get("params") if isinstance(payload, dict) else None
    bound = 0
    for entry in params.values() if isinstance(params, dict) else ():
        # every "data" array was taken out, so a list left under "data" is an index into arrays
        if isinstance(entry, dict) and isinstance(entry.get("data"), list):
            entry["data"] = arrays[entry["data"][0]]
            bound += 1
    if bound != len(arrays):
        raise InputError(f"{path}: holds a 'data' array outside a parameter entry")
    return payload


def _scan(fh, where: str) -> tuple[bytes, list[np.ndarray]]:
    """Split a checkpoint's bytes into its skeleton and the arrays of its ``"data"`` keys.

    The skeleton is the file with the i-th such array replaced by ``[i]``.
    """
    buf = bytearray()
    skeleton: list[bytes] = []
    arrays: list[np.ndarray] = []

    def more() -> bool:
        chunk = fh.read(_CHUNK_BYTES)
        buf.extend(chunk)
        return bool(chunk)

    def after_space(i: int) -> int:
        """Index of the first byte at or after i that is not whitespace (len(buf) at the end of the file)."""
        while True:
            i = _SPACE.match(buf, i).end()
            if i < len(buf) or not more():
                return i

    more()
    while True:
        if b'"data' in buf or b"\\" in buf:
            quote = _PLAIN.match(buf).end()  # where a string the match could not pass starts
        else:  # every quote delimits a plain string: all of buf up to an unmatched last quote is skeleton
            quote = buf.rfind(b'"') if buf.count(b'"') % 2 else len(buf)
        if quote == len(buf):
            skeleton.append(bytes(buf))
            del buf[:]
            if more():
                continue
            break
        token = _STRING.match(buf, quote)
        while token is None and more():
            token = _STRING.match(buf, quote)
        if token is None:  # an unterminated string; json.loads reports it
            skeleton.append(bytes(buf))
            break
        end = token.end()
        if _names_data(bytes(buf[quote:end])):
            colon = after_space(end)
            bracket = after_space(colon + 1) if buf[colon : colon + 1] == b":" else colon
            if buf[bracket : bracket + 1] == b"[":
                skeleton.append(bytes(buf[:bracket]) + b"[%d]" % len(arrays))
                del buf[: bracket + 1]
                arrays.append(_read_array(buf, more, where))
                continue
        skeleton.append(bytes(buf[:end]))
        del buf[:end]
    return b"".join(skeleton), arrays


def _names_data(token: bytes) -> bool:
    """Whether a JSON string token spells "data"."""
    if b"\\" not in token:
        return token == b'"data"'
    try:
        return json.loads(token) == "data"
    except ValueError:  # a bad escape; parsing the skeleton reports it
        return False


def _read_array(buf: bytearray, more, where: str) -> np.ndarray:
    """Parse the array whose "[" was just taken off the front of buf, through its "]"."""
    parts = []
    while True:
        close = buf.find(b"]")
        if close >= 0:
            parts.append(_parse_numbers(bytes(buf[:close]), where, whole=not parts))
            del buf[: close + 1]
            return parts[0] if len(parts) == 1 else np.concatenate(parts)
        cut = buf.rfind(b",")
        if cut >= 0:
            parts.append(_parse_numbers(bytes(buf[:cut]), where, whole=False))
            del buf[: cut + 1]
        if not more():
            raise InputError(f"{where}: invalid JSON (the file ends inside a data array)")


def _parse_numbers(text: bytes, where: str, whole: bool) -> np.ndarray:
    """float64 values of a comma-separated run of JSON numbers (the whole body of a data array when whole).

    ``json.loads`` parses the run, so a number is read exactly as a whole-file
    ``json.load`` read it; only this run's Python floats are alive at a time.
    """
    if not whole and not text.strip(b" \t\n\r"):  # [1,,2] or [1,] cut at the comma
        raise InputError(f"{where}: invalid JSON (an empty element in a data array)")
    try:
        return np.array(json.loads((b"[" + text + b"]").decode("utf-8")), dtype=np.float64)
    except json.JSONDecodeError as exc:
        raise InputError(f"{where}: invalid JSON in a data array ({exc.msg})") from None
    except (TypeError, ValueError) as exc:
        raise InputError(f"{where}: a data array holds something other than numbers ({exc})") from None
