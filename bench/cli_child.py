"""Run one bilop CLI command with spans around its library calls.

Usage: python bench/cli_child.py SPANS_JSON <bilop arguments...>

Behaves like ``python -m bilop <arguments>`` (same output, same exit
code) and also writes SPANS_JSON: the time to import bilop.cli, the time
spent in bilop.cli.main, and the spans of the calls bilop.cli makes into
the library. The benchmark's traced cli-gallery run uses it.
"""

import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import bilop.cli

    imported = time.perf_counter()
    import json

    from spans import CLI_BOUNDARIES, LIBRARY_BOUNDARIES, Tracer

    tracer = Tracer(CLI_BOUNDARIES + LIBRARY_BOUNDARIES)
    with tracer:
        main_start = time.perf_counter()
        try:
            code = bilop.cli.main(argv)
        finally:
            main_end = time.perf_counter()
            sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "import_s": imported - start,
                "main_s": main_end - main_start,
                "spans": tracer.spans,
                "absent": tracer.absent,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
