"""README's code examples run against the code they describe."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    library = README.read_text(encoding="utf-8").split("\n## Library\n")[1]
    code = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    exec(compile(code, str(README), "exec"), {})
    macs, weight_loads, simd = map(int, capsys.readouterr().out.split())
    # the text below the example: every multiply fetches one weight
    assert macs == weight_loads > 0 and simd > 0
