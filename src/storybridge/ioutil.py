"""Shared file plumbing: canonical JSON lines, atomic writes, hashing, input errors."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import secrets


class InputError(Exception):
    """Bad or missing input data; the CLI maps this to exit code 2."""


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def read_jsonl_lines(path: str) -> list[tuple[int, dict]]:
    """(line number, record) for every nonblank line of a JSONL file; each line must hold a JSON object."""
    if not os.path.isfile(path):
        raise InputError(f"input file not found: {path}")
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
            if not isinstance(rec, dict):
                raise InputError(f"{path}:{lineno}: expected a JSON object")
            records.append((lineno, rec))
    return records


@contextlib.contextmanager
def atomic_writer(path: str, binary: bool = False):
    """Text (or binary) handle on a temp file beside path; path is replaced only once the block completes.

    If the block raises, the temp file is removed and any previous file at
    path is left as it was.
    """
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    tmp = os.path.join(parent, f".{os.path.basename(path)}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_jsonl(path: str, records) -> None:
    with atomic_writer(path) as fh:
        for rec in records:
            fh.write(canonical_dumps(rec))
            fh.write("\n")


def read_json(path: str) -> dict:
    if not os.path.isfile(path):
        raise InputError(f"input file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON ({exc.msg})") from None


def write_json(path: str, obj) -> None:
    with atomic_writer(path) as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2))
        fh.write("\n")


def sha256_file(path: str) -> str:
    """Hex sha256 of a file's bytes, read into one reused 256 KiB buffer."""
    h = hashlib.sha256()
    buf = bytearray(1 << 18)
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            h.update(view[:n])
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
