"""Shared file plumbing: canonical JSON lines, hashing, input errors."""

from __future__ import annotations

import hashlib
import json
import os


class InputError(Exception):
    """Bad or missing input data; the CLI maps this to exit code 2."""


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def read_jsonl(path: str) -> list[dict]:
    return [rec for _lineno, rec in read_jsonl_lines(path)]


def read_jsonl_lines(path: str) -> list[tuple[int, dict]]:
    """(line number, record) for every nonblank line of a JSONL file."""
    if not os.path.exists(path):
        raise InputError(f"input file not found: {path}")
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append((lineno, json.loads(line)))
            except json.JSONDecodeError as exc:
                raise InputError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from None
    return records


def write_jsonl(path: str, records) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(canonical_dumps(rec))
            fh.write("\n")


def read_json(path: str) -> dict:
    if not os.path.exists(path):
        raise InputError(f"input file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path}: invalid JSON ({exc.msg})") from None


def write_json(path: str, obj) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2))
        fh.write("\n")


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
