"""Run one speccon CLI command with every layer's public functions traced.

Usage: python traced_cli.py SPANS_JSON <speccon arguments...>

The command's stdout, stderr and exit code are the untraced command's; the
spans are written to SPANS_JSON when it ends, whatever the exit code.
"""

import json
import sys

from spans import Tracer, instrument, spans_to_json


def main() -> None:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from speccon import cli

    tracer = Tracer()
    instrument(tracer)
    code = 0
    try:
        with tracer.root("cli"):
            cli.main.main(args=argv, prog_name="speccon")
    except SystemExit as exc:
        code = exc.code
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(spans_to_json(tracer.spans), fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
