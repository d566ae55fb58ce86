"""Every RPR rule fires on its bad fixture and stays quiet on its good one."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import check_source

FIXTURES = Path(__file__).parent / "fixtures"

#: Rules scoped by module path (RPR004/RPR007 to repro subpackages,
#: RPR010 to the durability modules) lint their fixtures under a
#: pretend module path.
_FIXTURE_MODULES = {
    "RPR004": "repro.viz.fake",
    "RPR007": "repro.core.fake",
    "RPR009": "repro.serve.fake",
    "RPR010": "repro.fixtures.wal",
    "RPR011": "repro.serve.fake",
}

RULES = (
    "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006", "RPR007",
    "RPR008", "RPR009", "RPR010", "RPR011",
)


def _lint_fixture(code: str, kind: str):
    path = FIXTURES / f"{code.lower()}_{kind}.py"
    return check_source(
        path.read_text(),
        relpath=f"fixtures/{path.name}",
        module=_FIXTURE_MODULES.get(code, "<module>"),
    )


@pytest.mark.parametrize("code", RULES)
def test_bad_fixture_fires_only_its_rule(code):
    findings = _lint_fixture(code, "bad")
    assert findings, f"{code} bad fixture produced no findings"
    assert {f.code for f in findings} == {code}


@pytest.mark.parametrize("code", RULES)
def test_good_fixture_is_clean(code):
    assert _lint_fixture(code, "good") == []


@pytest.mark.parametrize(
    "code, expected",
    [("RPR001", 5), ("RPR002", 2), ("RPR003", 3), ("RPR004", 2),
     ("RPR005", 2), ("RPR006", 2), ("RPR007", 2), ("RPR008", 3),
     ("RPR009", 3), ("RPR010", 3), ("RPR011", 3)],
)
def test_bad_fixture_flags_every_site(code, expected):
    assert len(_lint_fixture(code, "bad")) == expected


def test_findings_carry_location_and_render():
    f = _lint_fixture("RPR001", "bad")[0]
    assert f.line > 0
    rendered = f.render()
    assert rendered.startswith("fixtures/rpr001_bad.py:")
    assert "RPR001" in rendered


def test_parse_error_is_reported_not_raised():
    findings = check_source("def broken(:\n", relpath="x.py")
    assert [f.code for f in findings] == ["RPR000"]
    assert "parse-error" in findings[0].message


def test_rule_selection_limits_the_run():
    source = (FIXTURES / "rpr001_bad.py").read_text()
    findings = check_source(source, rules=("RPR003",))
    assert findings == []


def test_pickle_ban_exempts_no_module():
    """RPR003 has no exempt module, repro/core/profiles.py included."""
    source = "import pickle\n\n\ndef load(raw):\n    return pickle.loads(raw)\n"
    findings = check_source(source, relpath="repro/core/profiles.py", rules=("RPR003",))
    assert [(f.code, f.line) for f in findings] == [("RPR003", 5)]
