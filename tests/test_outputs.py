"""tools/outputs.py's digest of a command list. The tool is loaded by path, as
it is not a package."""

import hashlib
import runpy
from pathlib import Path

from click.testing import CliRunner

from speccon.cli import main

OUTPUTS = runpy.run_path(str(Path(__file__).parents[1] / "tools" / "outputs.py"))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_a_line_digests_the_status_streams_and_out_files():
    runner = CliRunner()
    table = runner.invoke(main, ["table2"]).stdout_bytes
    failing = ["simulate", "--graph", "star:12", "--method", "chebyshev", "--band", "1,5",
               "--steps", "2"]
    failed = runner.invoke(main, failing)
    lines = list(OUTPUTS["digests"]([["table2", "--out", "out"], failing]))
    assert lines == [
        f"table2 --out out | exit 0 | stdout {_sha(table)} | stderr {_sha(b'')} "
        f"| out/table2.csv {_sha(table)}",
        f"{' '.join(failing)} | exit 1 | stdout {_sha(failed.stdout_bytes)} "
        f"| stderr {_sha(failed.stderr_bytes)}",
    ]
    assert failed.stderr.startswith("Error: ")
