"""The README's Python examples run as written."""

import json
import re
from pathlib import Path

from credo.config import _plain, resolve_config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    for source in blocks:
        exec(compile(source, str(README), "exec"), {})


def _keys(obj, prefix=""):
    """Every dotted key path of a JSON object, nested objects included."""
    out = set()
    for key, value in obj.items():
        out.add(prefix + key)
        if isinstance(value, dict):
            out |= _keys(value, f"{prefix}{key}.")
    return out


def test_configuration_reference_block_lists_every_echoed_key():
    section = README.read_text().split("## Configuration reference", 1)[1]
    (block,) = re.findall(r"```jsonc\n(.*?)```", section.split("\n## ", 1)[0], flags=re.S)
    raw = json.loads(re.sub(r"//.*", "", block))
    echo = _plain(resolve_config(raw))
    assert _keys(raw) == _keys(echo) - {"models"}
