"""Tests of crash-safe writes and payload checksums
(``repro.analysis.serialization``)."""

import json
import os

import pytest

from repro.analysis import serialization
from repro.analysis.serialization import (
    CHECKSUM_KEY,
    atomic_write_bytes,
    atomic_write_text,
    checksummed_payload,
    dump_json,
    payload_checksum,
    verify_payload_checksum,
)
from repro.exceptions import ShardFormatError

PAYLOAD = {"format": "example", "rows": [{"index": 0, "label": "a"}], "n": 2}


class TestPayloadChecksums:
    def test_checksum_excludes_its_own_key(self):
        body = checksummed_payload(PAYLOAD)
        assert body[CHECKSUM_KEY] == payload_checksum(PAYLOAD)
        assert payload_checksum(body) == payload_checksum(PAYLOAD)
        assert CHECKSUM_KEY not in PAYLOAD  # the input is not modified

    def test_checksum_ignores_key_order(self):
        reordered = dict(reversed(list(PAYLOAD.items())))
        assert payload_checksum(reordered) == payload_checksum(PAYLOAD)
        assert dump_json(checksummed_payload(reordered)) == dump_json(
            checksummed_payload(PAYLOAD)
        )

    def test_payload_without_checksum_verifies(self):
        verify_payload_checksum(dict(PAYLOAD), "plain.json")

    def test_edited_payload_names_the_path_and_both_digests(self):
        body = checksummed_payload(PAYLOAD)
        body["n"] = 3
        with pytest.raises(ShardFormatError) as info:
            verify_payload_checksum(body, "out-0.json")
        message = str(info.value)
        assert message.startswith("'out-0.json': payload checksum mismatch")
        assert body[CHECKSUM_KEY][:12] in message
        assert payload_checksum(body)[:12] in message

    def test_dump_json_is_canonical(self):
        text = dump_json({"b": 1, "a": [1, 2]})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"a": [1, 2], "b": 1}


class TestAtomicWrites:
    def test_write_replaces_the_existing_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("old\n")
        atomic_write_text(str(path), "new\n")
        assert path.read_text() == "new\n"
        assert os.listdir(tmp_path) == ["plan.json"]

    def test_failed_rename_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "plan.json"
        path.write_bytes(b"old")

        def failing_replace(src, dst):
            raise OSError("disk went away")

        monkeypatch.setattr(serialization.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk went away"):
            atomic_write_bytes(str(path), b"new")
        assert path.read_bytes() == b"old"
        # The temp file written before the failed rename is cleaned up.
        assert os.listdir(tmp_path) == ["plan.json"]
