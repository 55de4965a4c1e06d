"""Every ```python block of README.md runs as written, from the repo root,
and its JSON examples of a scenario and a measure file load."""

import json
import re
from pathlib import Path

import pytest

from crflow.scenario import build_scenario, load_measure_file

ROOT = Path(__file__).parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.DOTALL | re.MULTILINE)


def json_block(heading):
    """The first ```json block after the README line `heading`."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return json.loads(re.search(r"^```json\n(.*?)^```", section,
                                re.DOTALL | re.MULTILINE).group(1))


def test_readme_has_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(code, monkeypatch):
    monkeypatch.chdir(ROOT)
    exec(compile(code, "README.md", "exec"), {})


def test_scenario_example_builds():
    sc = build_scenario(json_block("## Scenario format"))
    assert sc.state0.space.size == 3
    assert sc.rates.clamp == 2.0            # the default level, 2 * inflow / dilution


def test_measure_file_example_loads(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(json_block("### flatnorm")), encoding="utf-8")
    assert load_measure_file(path).weights.tolist() == [1.0, 0.0]
