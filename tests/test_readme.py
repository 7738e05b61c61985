import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    # the block documents the public API; running it keeps the two in step
    match = re.search(r"^## Library example\n\n```python\n(.*?)^```$", README.read_text(),
                      re.MULTILINE | re.DOTALL)
    assert match, "README has no python block under '## Library example'"
    namespace = {}
    exec(compile(match.group(1), f"{README}:Library example", "exec"), namespace)
    assert {"bvd", "g", "g_curve", "sp", "ds", "fits", "recon"} <= namespace.keys()
