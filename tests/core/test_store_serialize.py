"""Result store format and RunPoint/StudyResult serialization."""

import json

import pytest

from repro import api
from repro.core import ResultStore, StudyConfig, StudyResult
from repro.core.runner import RunPoint


@pytest.fixture(scope="module")
def result() -> StudyResult:
    cfg = StudyConfig(name="t", algorithms=("threshold",), sizes=(12,))
    return api.run_study(api.StudyRequest(config=cfg, n_cycles=2))


class TestRunPointSerialization:
    def test_dict_roundtrip_bitwise(self, result):
        for p in result.points:
            q = RunPoint.from_dict(p.to_dict())
            assert q == p  # frozen dataclass: field-by-field equality

    def test_jsonl_roundtrip_bitwise(self, result):
        for p in result.points:
            assert RunPoint.from_jsonl(p.to_jsonl()) == p

    def test_key(self, result):
        p = result.points[0]
        assert p.key == (p.algorithm, p.size, p.cap_w)


class TestStudyResultSerialization:
    def test_jsonl_roundtrip(self, result, tmp_path):
        path = tmp_path / "r.jsonl"
        text = result.to_jsonl(path)
        assert path.read_text() == text
        back = StudyResult.from_jsonl(path)
        assert back.config_name == result.config_name
        assert back.points == result.points

    def test_dict_roundtrip(self, result):
        back = StudyResult.from_dict(result.to_dict())
        assert back.points == result.points

    def test_header_carries_format_and_version(self, result):
        header = json.loads(result.to_jsonl().splitlines()[0])
        assert header["format"] == "repro-study-result"
        assert header["version"] == 1

    def test_newer_version_rejected(self, result):
        doc = result.to_dict()
        doc["version"] = 99
        with pytest.raises(ValueError, match="newer than supported"):
            StudyResult.from_dict(doc)

    def test_garbage_rejected(self, tmp_path):
        p = tmp_path / "r.jsonl"
        p.write_text('{"format": "nonsense"}\n')
        with pytest.raises(ValueError, match="not a study result"):
            StudyResult.from_jsonl(p)

    def test_from_jsonl_inline_text(self, result):
        back = StudyResult.from_jsonl(result.to_jsonl())
        assert back.points == result.points

    def test_from_jsonl_header_only_single_line(self):
        """A point-free result is one JSON line with no newline; the text
        starts with ``{`` so it must parse as inline text, not a path."""
        empty = StudyResult(config_name="empty")
        text = empty.to_jsonl().strip()
        assert "\n" not in text
        back = StudyResult.from_jsonl(text)
        assert back.config_name == "empty"
        assert back.points == []

    def test_from_jsonl_string_path(self, result, tmp_path):
        path = tmp_path / "r.jsonl"
        result.to_jsonl(path)
        back = StudyResult.from_jsonl(str(path))
        assert back.points == result.points


class TestResultStore:
    def test_append_and_reload(self, result, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.ensure_compatible("fp", {"config_name": "t"})
        for p in result.points:
            store.append(p)

        again = ResultStore(path)
        assert again.fingerprint == "fp"
        assert len(again) == len(result.points)
        assert again.load_result().points == result.points
        assert result.points[0].key in again

    def test_append_without_fingerprint_refused(self, result, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        with pytest.raises(RuntimeError, match="fingerprint"):
            store.append(result.points[0])

    def test_torn_tail_truncated(self, result, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.ensure_compatible("fp")
        for p in result.points[:3]:
            store.append(p)
        with open(path, "a") as fh:
            fh.write('{"algorithm": "threshold", "size": 12, "cap')  # killed mid-write

        again = ResultStore(path)
        assert len(again) == 3
        # The torn bytes are gone: appending after reload stays parseable.
        again.append(result.points[3])
        assert len(ResultStore(path)) == 4

    def test_corrupt_middle_line_raises(self, result, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.ensure_compatible("fp")
        store.append(result.points[0])
        lines = path.read_text().splitlines()
        lines.insert(1, "garbage not json")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt record"):
            ResultStore(path)

    def test_foreign_file_rejected(self, tmp_path):
        p = tmp_path / "s.jsonl"
        p.write_text('{"format": "other"}\n')
        with pytest.raises(ValueError, match="not a sweep store"):
            ResultStore(p)

    def test_duplicate_key_keeps_latest(self, result, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.ensure_compatible("fp")
        store.append(result.points[0])
        store.append(result.points[0])
        assert len(store) == 1
