"""The atomic writer every artifact goes through: a target changes whole or not at all."""

import pytest

from pseudolab.artifacts import atomic_paths, atomic_write_text


def _tree(directory):
    return {
        p.relative_to(directory).as_posix(): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


@pytest.fixture
def targets(tmp_path):
    """An existing file target and an existing directory target holding a nested tree."""
    file_target = tmp_path / "report.json"
    file_target.write_bytes(b"old report\n")
    dir_target = tmp_path / "bundle"
    (dir_target / "models").mkdir(parents=True)
    (dir_target / "manifest.json").write_bytes(b"old manifest\n")
    (dir_target / "models" / "stale.json").write_bytes(b"old model\n")
    return file_target, dir_target


def test_file_and_directory_targets_are_replaced(tmp_path, targets):
    file_target, dir_target = targets
    with atomic_paths(file_target, dir_target) as (file_tmp, dir_tmp):
        assert file_tmp.name == file_target.name and dir_tmp.name == dir_target.name
        assert not file_tmp.exists() and not dir_tmp.exists()
        file_tmp.write_bytes(b"new report\n")
        dir_tmp.mkdir()
        (dir_tmp / "manifest.json").write_bytes(b"new manifest\n")
    assert file_target.read_bytes() == b"new report\n"
    # the old tree is gone, not merged with the new one
    assert _tree(dir_target) == {"manifest.json": b"new manifest\n"}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle", "report.json"]


def test_new_targets_are_created(tmp_path):
    atomic_write_text(tmp_path / "table.txt", "größe\n")
    assert (tmp_path / "table.txt").read_bytes() == "größe\n".encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["table.txt"]


@pytest.mark.parametrize("which", ["file", "directory"])
def test_a_saver_that_raises_leaves_the_target_unchanged(tmp_path, targets, which):
    target = targets[0] if which == "file" else targets[1]
    before = _tree(tmp_path)

    def failing_save(tmp):
        if which == "file":
            tmp.write_bytes(b"half a rep")
        else:
            tmp.mkdir()
            (tmp / "manifest.json").write_bytes(b"half a manif")
        raise OSError(28, "No space left on device")

    with pytest.raises(OSError, match="No space"):
        with atomic_paths(target) as (tmp,):
            failing_save(tmp)
    assert _tree(tmp_path) == before
    assert not list(tmp_path.rglob("*.tmp"))


def test_a_failure_with_two_targets_leaves_both_unchanged(tmp_path, targets):
    before = _tree(tmp_path)
    with pytest.raises(KeyboardInterrupt):
        with atomic_paths(*targets) as (file_tmp, dir_tmp):
            file_tmp.write_bytes(b"new report\n")  # the first output is complete
            dir_tmp.mkdir()
            raise KeyboardInterrupt
    assert _tree(tmp_path) == before
    assert not list(tmp_path.rglob("*.tmp"))
