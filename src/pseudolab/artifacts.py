"""Artifact digests, the JSON artifact format, atomic writes, and output-dir locking."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Iterator


class StaleArtifactError(RuntimeError):
    """An upstream artifact is missing or its digest no longer matches."""


def json_text(value) -> str:
    """The one format of every JSON artifact: sorted keys, indent 2, a final newline."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str | Path) -> str:
    """The file's digest, read through one reused 256 KB buffer."""
    h = hashlib.sha256()
    buffer = memoryview(bytearray(1 << 18))
    with open(path, "rb") as fh:
        while n := fh.readinto(buffer):
            h.update(buffer[:n])
    return h.hexdigest()


def sha256_tree(directory: str | Path) -> str:
    """Digest of a directory artifact: file names and contents, sorted."""
    directory = Path(directory)
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(directory)).encode("utf-8"))
            h.update(path.read_bytes())
    return h.hexdigest()


def artifact_digest(path: str | Path) -> str:
    path = Path(path)
    return sha256_tree(path) if path.is_dir() else sha256_file(path)


@contextlib.contextmanager
def atomic_path(target: str | Path) -> Iterator[Path]:
    """Yield a temp path for target; when the block succeeds, move it onto target.

    The temp path has the target's name inside its own hidden
    `.<name>.XXXX.tmp` directory beside the target, so the block may create a
    file or a directory there. If the block raises, the temp is removed and
    the target does not change. An existing directory target is first moved
    aside into the temp directory (and put back if the new one cannot move
    in), so the old tree stays on disk until the new one replaces it.
    """
    target = Path(target)
    tmp_dir = Path(tempfile.mkdtemp(dir=target.parent, prefix=f".{target.name}.", suffix=".tmp"))
    try:
        yield tmp_dir / target.name
        old = tmp_dir / ".old"
        if target.is_dir():
            os.replace(target, old)
        try:
            os.replace(tmp_dir / target.name, target)
        except OSError:
            if old.exists():
                os.replace(old, target)
            raise
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write UTF-8 text so that a crash never leaves a partial file at `path`."""
    with atomic_path(path) as tmp:
        tmp.write_bytes(text.encode("utf-8"))


def _dead_lock_holder(lock_path: Path) -> int | None:
    """The PID a lock file names, if no process has that PID."""
    try:
        pid = int(lock_path.read_text())
        if pid > 0:  # os.kill would signal a process group otherwise
            os.kill(pid, 0)
    except ProcessLookupError:
        return pid
    except (OSError, ValueError):  # gone, PID not written yet, or another user's
        pass
    return None


@contextlib.contextmanager
def output_lock(output_dir: str | Path):
    """One command at a time per output directory.

    A lock whose PID names no live process was left by a killed command and
    is taken over, once.
    """
    lock_path = Path(output_dir) / ".lock"
    flags = os.O_CREAT | os.O_EXCL | os.O_WRONLY
    try:
        try:
            fd = os.open(lock_path, flags)
        except FileExistsError:
            dead_pid = _dead_lock_holder(lock_path)
            if dead_pid is None:
                raise
            print(
                f"removing stale lock {lock_path}: process {dead_pid} no longer exists",
                file=sys.stderr,
            )
            with contextlib.suppress(FileNotFoundError):
                os.unlink(lock_path)
            fd = os.open(lock_path, flags)
    except FileExistsError:
        raise RuntimeError(
            f"output directory {output_dir} is locked by another command "
            f"(stale lock? remove {lock_path})"
        ) from None
    try:
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        yield
    finally:
        with contextlib.suppress(OSError):
            os.unlink(lock_path)
