"""The shared file writer (JSON bytes and in-place rewrites) and the raise
of validator lines."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlv.errors import ValidationError, dump_json, require, write_file

SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
# Same-type lists take the writer's one-join path; nan and inf among the
# floats take its per-item path.
LISTS = st.lists(st.floats()) | st.lists(st.integers()) | st.lists(st.text())
TREES = st.recursive(SCALARS | LISTS, lambda children: st.lists(children)
                     | st.dictionaries(st.text(min_size=1), children), max_leaves=25)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(TREES)
def test_dump_json_matches_json_dumps_indent_2(obj):
    assert dump_json(obj) == json.dumps(obj, indent=2)


def test_dump_json_empty_containers_and_tuples():
    for obj in ([], {}, (), [[]], {"a": {}}, {"a": [[], {}, ()]}, {"": 1.0}, (1.0, 2.0),
                [0.0, -0.0]):
        assert dump_json(obj) == json.dumps(obj, indent=2)


def test_write_file_rewrites_in_place(tmp_path):
    target = tmp_path / "out.txt"
    write_file(target, "a longer first text\n")
    inode = target.stat().st_ino
    write_file(target, "short\n")
    assert target.read_bytes() == b"short\n"
    assert target.stat().st_ino == inode
    write_file(target, "")
    assert target.read_bytes() == b""


def test_write_file_writes_to_a_device_without_cutting_it():
    write_file("/dev/null", "not kept\n")


def test_require_raises_every_line_in_one_message():
    require((), "game")
    with pytest.raises(ValidationError) as err:
        require(("first line", "second line"), "game")
    assert str(err.value) == "invalid game: first line; second line"
