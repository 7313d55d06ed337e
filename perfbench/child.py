"""Run one anchorforge command in this process, as the console script does.

    python3 child.py <subcommand> [options...]
    python3 child.py --trace SPANS_JSON RUN_ID <subcommand> [options...]

With ``--trace`` the layer wrappers from ``tracer`` are installed first,
the whole command is one root span named ``cli.<subcommand>``, and the
spans are written to SPANS_JSON when the command ends, even if it fails.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    from anchorforge.cli import main as cli_main

    if argv[:1] != ["--trace"]:
        return cli_main(argv)

    import tracer

    spans_path, run_id, argv = argv[1], argv[2], argv[3:]
    recorder = tracer.Tracer(run_id)
    recorder.install()
    try:
        return recorder.wrap(f"cli.{argv[0]}", cli_main)(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
