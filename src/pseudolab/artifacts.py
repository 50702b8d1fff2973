"""Run manifests, artifact reads and digests, atomic writes, and output-dir locking."""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Callable, TypeVar

from .corpus import InputFileError

T = TypeVar("T")


class StaleArtifactError(RuntimeError):
    """An upstream artifact is missing or its digest no longer matches."""


def read_artifact(
    path: str | Path, name: str, producing_stage: str, load: Callable[[Path], T]
) -> T:
    """`load(path)`, with a truncated or malformed artifact raised as StaleArtifactError.

    Every stage reads its .npy, JSON and JSONL artifacts (and the index) this
    way, so a corrupt file read under --force is named, not a traceback.
    """
    try:
        return load(Path(path))
    except InputFileError:
        raise  # the store is read like an input file: a bad line exits 1, naming it
    except (ValueError, KeyError, TypeError, IndexError, AttributeError, EOFError) as exc:
        raise StaleArtifactError(
            f"artifact {name!r} is corrupt or truncated ({type(exc).__name__}: {exc}); "
            f"re-run the {producing_stage!r} stage"
        ) from None


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
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


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write via a temp file plus rename so a crash never leaves partial output."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


class Manifest:
    """Per-output-directory record of stage runs and artifact digests."""

    FILENAME = "manifest.json"

    def __init__(self, output_dir: str | Path, tool_version: str = ""):
        self.output_dir = Path(output_dir)
        self.data: dict = {"tool_version": tool_version, "stages": {}}
        path = self.output_dir / self.FILENAME
        if path.exists():
            try:
                self.data = json.loads(path.read_text(encoding="utf-8"))
                if not all(isinstance(i["outputs"], dict) for i in self.data["stages"].values()):
                    raise TypeError("a stage record has no outputs")
            except (ValueError, TypeError, KeyError, AttributeError) as exc:
                raise StaleArtifactError(
                    f"{self.FILENAME!r} in {self.output_dir} is corrupt ({exc!r}); "
                    "remove it and re-run the stages from 'ingest'"
                ) from None
            if tool_version:
                self.data["tool_version"] = tool_version

    def record_stage(
        self,
        stage: str,
        config_digest: str,
        inputs: dict[str, str],
        outputs: dict[str, str],
        wall_seconds: float,
    ) -> None:
        self.data.setdefault("stages", {})[stage] = {
            "config_digest": config_digest,
            "inputs": inputs,
            "outputs": outputs,
            "wall_seconds": round(wall_seconds, 3),
        }

    def save(self) -> None:
        atomic_write_text(
            self.output_dir / self.FILENAME,
            json.dumps(self.data, indent=2, sort_keys=True) + "\n",
        )

    def recorded_output(self, artifact: str) -> tuple[str, str] | None:
        """Return (producing stage, digest) for an artifact name, if recorded."""
        for stage, info in self.data.get("stages", {}).items():
            if artifact in info.get("outputs", {}):
                return stage, info["outputs"][artifact]
        return None

    def require(self, artifact: str, producing_stage: str, force: bool = False) -> str:
        """Check an upstream artifact exists and is fresh; return its digest.

        With force, an unrecorded or modified artifact is accepted as it is.
        """
        path = self.output_dir / artifact
        if not path.exists():
            raise StaleArtifactError(
                f"missing artifact {artifact!r}; run the {producing_stage!r} stage first"
            )
        recorded = self.recorded_output(artifact)
        if recorded is None and not force:
            raise StaleArtifactError(
                f"artifact {artifact!r} is not recorded in the manifest; "
                f"re-run the {producing_stage!r} stage (or pass --force)"
            )
        digest = artifact_digest(path)
        if recorded is not None and not force and digest != recorded[1]:
            raise StaleArtifactError(
                f"artifact {artifact!r} was modified after the {producing_stage!r} "
                f"stage produced it; re-run {producing_stage!r} (or pass --force)"
            )
        return digest


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
