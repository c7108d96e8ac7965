"""The README's Python examples run as written, and its API list is the
package's, with a job and a caller for each name.
"""

import importlib
import re
from pathlib import Path

import fiberframe

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks, "README.md has no ```python block"
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)


def test_api_list_is_the_package_all():
    # one "- `module`: `name`, ..." item per module, wrapped freely
    section = README.read_text(encoding="utf-8").split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    items = re.findall(r"^- `(fiberframe[\w.]*)`:(.*?)(?=^- |\Z)", section, re.M | re.S)
    listed = {module: re.findall(r"`(\w+)`", body) for module, body in items}
    assert sorted(name for names in listed.values() for name in names) == sorted(fiberframe.__all__)
    for module, names in listed.items():
        declared = ["__version__"] if module == "fiberframe" else importlib.import_module(module).__all__
        assert sorted(names) == sorted(declared), module


def test_api_list_gives_each_name_a_job_and_a_caller():
    # one "  - `name`: job; caller: ..." entry per public name, or an object of
    # the paper; an annotation holds no backticks, so it lists no second name
    section = README.read_text(encoding="utf-8").split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    entries = re.findall(r"^  - `(\w+)`: (.*?)(?=^  - |^- |\Z)", section, re.M | re.S)
    assert sorted(name for name, _note in entries) == sorted(fiberframe.__all__)
    for name, note in entries:
        note = " ".join(note.split())
        assert "`" not in note, name
        assert "; caller: " in note or "an object of the paper" in note, name
