"""Run ``repro serve`` with the layer wrappers installed.

    python perfbench/trace_serve.py SPANS.json serve --port 0 --state DIR

The wrappers are installed before the server starts; the spans are
written to ``SPANS.json`` when the server exits (SIGINT drains it).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import tracing  # noqa: E402
from repro import cli  # noqa: E402


def main() -> int:
    spans_path = sys.argv[1]
    recorder = tracing.Recorder()
    tracing.install(recorder)
    try:
        return cli.main(sys.argv[2:])
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
