"""The README's Python API section names only importable objects."""

import ast
import importlib
import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_python_api_names_resolve():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    code = "\n".join(re.findall(r"```python\n(.*?)```", section, re.S))
    imports = [node for node in ast.walk(ast.parse(code)) if isinstance(node, ast.ImportFrom)]
    assert len(imports) > 10
    missing = [
        f"{node.module}.{alias.name}"
        for node in imports
        for alias in node.names
        if not hasattr(importlib.import_module(node.module), alias.name)
    ]
    assert missing == []
